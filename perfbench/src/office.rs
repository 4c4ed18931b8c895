//! `office_e2e`: the paper's path, phone-heavy. Random-waypoint phones on
//! the office floor run the Android pipeline in one batched fleet call; every
//! cycle becomes a report, crosses the BT relay with retries, and lands in
//! an ingest tier whose shards classify with the trained SVM.

use crate::server::{self, Ingest, Queries, TimedEstimator};
use crate::trace::{with_wall_clock, Stopwatch, Trace};
use crate::workload::IterStats;
use crate::{Report, Workload};
use rand::Rng;
use roomsense::experiments::{fnv1a, sequenced_report_from_snapshots};
use roomsense::{
    batch_alloc_stats, collect_dataset, reset_batch_alloc_stats, run_fleet_batched, BatchConfig,
    FleetEvent, OccupancyModel, PipelineConfig, ScannerKind, Scenario,
};
use roomsense_building::mobility::{MobilityModel, RandomWaypoint};
use roomsense_building::presets;
use roomsense_ml::SvmParams;
use roomsense_net::{
    CountingConfig, DeviceId, IngestTierConfig, OccupancyEstimator, SendOutcome, SequenceStamper,
    Transport,
};
use roomsense_signal::{aggregate_cycle, EwmaFilter, TrackManager, TrackSnapshot};
use roomsense_sim::{exec, rng, SimDuration, SimTime};
use roomsense_stack::{run_scan, simulate_receptions, AndroidScanner};
use std::sync::Arc;

const PHONES: usize = 24;
const DURATION_S: u64 = 600;
const WAYPOINTS: usize = 96;
/// Occupants stroll: at 1.2 m/s the phones changed room every few seconds
/// and room accuracy fell to 0.28.
const WALK_SPEED_MPS: f64 = 0.4;
/// Collection laps behind the SVM; with three, room accuracy varied about
/// twice as much from seed to seed.
const TRAINING_LAPS: usize = 5;
const RETENTION: SimDuration = SimDuration::from_secs(300);
const VIEW_TTL: SimDuration = SimDuration::from_secs(10);
/// The tier's one-second tick runs late by up to this much, drawn per
/// tick, so the BMS loop is not phase-locked to the phones' 2 s scans.
const TICK_JITTER_MS: u64 = 250;

/// The office floor, its phones, and the model trained for it.
pub struct Office {
    seed: u64,
    scenario: Scenario,
    config: PipelineConfig,
    walks: Vec<RandomWaypoint>,
    model: Arc<OccupancyModel>,
    /// The model as the BMS sees it, timed from outside.
    ml: Arc<TimedEstimator>,
    reference_digest: Option<u64>,
    /// Tier tick instants, one per second of the run.
    ticks: Vec<SimTime>,
    /// True phones per room at each tick.
    truth_counts: Vec<Vec<usize>>,
}

impl Office {
    /// Builds the inputs from `seed` and trains the SVM (span `ml.fit`).
    pub fn setup(seed: u64, trace: &mut Trace) -> Office {
        let scenario = Scenario::from_plan(presets::office_floor(), seed);
        let config = PipelineConfig::paper_android();
        let walks: Vec<RandomWaypoint> = (0..PHONES)
            .map(|i| {
                let mut r = rng::for_indexed(seed, "perfbench-walk", i as u64);
                RandomWaypoint::generate(
                    scenario.plan(),
                    WAYPOINTS,
                    WALK_SPEED_MPS,
                    SimTime::ZERO,
                    &mut r,
                )
            })
            .collect();
        let rooms = scenario.plan().rooms().len();
        let mut jitter = rng::for_component(seed, "perfbench-tick");
        let ticks: Vec<SimTime> = (1..=DURATION_S)
            .map(|s| SimTime::from_millis(s * 1000 + jitter.gen_range(0..TICK_JITTER_MS)))
            .collect();
        let truth_counts = ticks
            .iter()
            .map(|&at| {
                let mut counts = vec![0usize; rooms];
                for walk in &walks {
                    if let Some(room) = scenario.plan().room_at(walk.position_at(at)) {
                        counts[room.index() as usize] += 1;
                    }
                }
                counts
            })
            .collect();
        let labelled = collect_dataset(
            &scenario,
            &config,
            SimDuration::from_secs(40),
            TRAINING_LAPS,
            seed,
        );
        let model = trace
            .span("ml.fit", || {
                OccupancyModel::fit(&labelled, &SvmParams::default())
            })
            .expect("the office collection walk yields a multi-class dataset");
        let model = Arc::new(model);
        Office {
            seed,
            scenario,
            config,
            walks,
            ml: TimedEstimator::new(model.clone()),
            model,
            reference_digest: None,
            ticks,
            truth_counts,
        }
    }

    fn occupants(&self) -> Vec<&dyn MobilityModel> {
        self.walks.iter().map(|w| w as &dyn MobilityModel).collect()
    }

    fn duration() -> SimDuration {
        SimDuration::from_secs(DURATION_S)
    }

    /// The whole phone side in one call.
    pub fn fleet(&self) -> Vec<FleetEvent> {
        run_fleet_batched(
            &self.scenario,
            &self.config,
            &self.occupants(),
            Self::duration(),
            self.seed,
            &BatchConfig::default(),
        )
    }

    /// A hash of every generated input: walk positions, tick instants,
    /// truth and the trained model (via its predictions on fixed rows).
    fn hash_inputs(&self) -> u64 {
        let positions: Vec<_> = self
            .walks
            .iter()
            .flat_map(|walk| {
                (0..=DURATION_S)
                    .step_by(5)
                    .map(|s| walk.position_at(SimTime::from_secs(s)))
            })
            .collect();
        let predictions: Vec<_> = (0..16)
            .map(|probe| {
                let features = vec![1.0 + probe as f64 * 0.5; self.model.beacon_order().len()];
                self.model.predict_features(&features)
            })
            .collect();
        fnv1a(&format!(
            "{}{positions:?}{:?}{:?}{predictions:?}",
            self.scenario.seed(),
            self.ticks,
            self.truth_counts
        ))
    }

    /// One iteration: fleet, uplink, ingest tier, queries. Returns the
    /// delivered reports in arrival order too, for the oracle.
    fn run(&self, trace: &mut Trace) -> (IterStats, Vec<Report>) {
        let outside = self.scenario.outside_label();
        let counting = CountingConfig::default();
        let mut stats = IterStats::default();
        let start = Stopwatch::start();
        trace.enter("iteration");

        let events = trace.span("core.fleet", || self.fleet());

        // Every non-empty cycle is reported over the relay.
        let mut stamper = SequenceStamper::new();
        let mut uplink = server::uplink();
        let mut uplink_rng = rng::for_component(self.seed, "perfbench-uplink");
        let mut truth_by_seq: Vec<Vec<usize>> = vec![Vec::new(); PHONES];
        let mut arrivals = Vec::with_capacity(events.len());
        for event in events.iter().filter(|e| !e.record.snapshots.is_empty()) {
            let report = sequenced_report_from_snapshots(
                &mut stamper,
                event.device,
                event.at,
                &event.record.snapshots,
            );
            truth_by_seq[event.device.value() as usize].push(
                event
                    .record
                    .true_room
                    .map_or(outside, |r| r.index() as usize),
            );
            stats.reports_offered += 1;
            let outcome = trace.span("net.transport", || {
                uplink.send(event.at, &report, &mut uplink_rng)
            });
            if let SendOutcome::Delivered { at } = outcome {
                stats
                    .transport
                    .delay_ms
                    .push(at.saturating_since(event.at).as_millis());
                arrivals.push((at, report));
            }
        }
        stats.transport.read(&uplink);
        arrivals.sort_by_key(|(at, r)| (*at, r.device, r.seq));
        let estimator: Arc<dyn OccupancyEstimator> = self.ml.clone();
        let mut ingest = Ingest::new(
            estimator,
            Some(Arc::clone(&self.ml)),
            RETENTION,
            IngestTierConfig::default(),
            self.seed,
        );
        let mut queries = Queries::default();
        // The latest visible report's true label, per phone.
        let mut latest: Vec<Option<(SimTime, usize)>> = vec![None; PHONES];
        let mut next = 0;
        let mut tick = 0u64;
        loop {
            tick += 1;
            let now = self
                .ticks
                .get(tick as usize - 1)
                .copied()
                .unwrap_or(SimTime::from_secs(tick));
            while next < arrivals.len() && arrivals[next].0 <= now {
                ingest.arrive(arrivals[next].0, arrivals[next].1.clone());
                next += 1;
            }
            ingest.tick(now, trace);
            for report in &ingest.visible {
                let device = report.device.value() as usize;
                let label = truth_by_seq[device][report.seq as usize];
                if latest[device].is_none_or(|(at, _)| report.at >= at) {
                    latest[device] = Some((report.at, label));
                }
            }
            // The dashboard asks for occupancy and population every tick.
            ingest.occupancy_view(now, VIEW_TTL, &mut queries, trace);
            let population = ingest.population_view(now, &counting, &mut queries, trace);
            queries.end_request();
            if let Some(truth) = self.truth_counts.get(tick as usize - 1) {
                stats.mae_sum += server::population_mae(&population.view.value, truth);
                stats.mae_n += 1;
                for (device, seen) in latest.iter().enumerate() {
                    if let Some((_, label)) = seen {
                        let believed = ingest.tier.fleet().room_of(DeviceId::new(device as u32));
                        stats.accuracy_hits += u64::from(believed == Some(*label));
                        stats.accuracy_total += 1;
                    }
                }
            }
            if tick >= DURATION_S && next == arrivals.len() && ingest.settled() {
                break;
            }
        }
        trace.exit();
        stats.cpu_s = start.elapsed_s();
        if trace.is_on() {
            stats.probe = server::history_probe(&ingest, SimTime::ZERO + Self::duration());
        }
        stats.reports_ingested = ingest.accepted;
        stats.queries = queries;
        stats.lag_ms = std::mem::take(&mut ingest.lag_ms);
        stats.wait_ms = std::mem::take(&mut ingest.wait_ms);
        stats.server = server::ServerCounts::of(&ingest);
        stats.classifications = stats.reports_ingested;
        stats.layers = trace.summary();
        if !ingest.shadow_consistent || ingest.duplicates > 0 {
            crate::fail("office_e2e: tier backlog diverged from the offered reports");
        }
        (stats, arrivals.into_iter().map(|(_, r)| r).collect())
    }

    /// The phone pipeline rebuilt layer by layer from public calls, with a
    /// span per layer. Returns `(receptions, scan samples, cycles,
    /// identical)`, where `identical` says every cycle's snapshots equal
    /// the batched fleet's bit for bit.
    pub fn decompose(&self, fleet: &[FleetEvent], trace: &mut Trace) -> (u64, u64, u64, bool) {
        let ScannerKind::Android { stall_probability } = self.config.scanner else {
            unreachable!("paper_android uses the Android scanner");
        };
        let until = SimTime::ZERO + Self::duration();
        let ranging = self.scenario.ranging_config();
        let (mut receptions_n, mut samples_n, mut cycles_n) = (0u64, 0u64, 0u64);
        let mut identical = true;
        for (index, walk) in self.walks.iter().enumerate() {
            let device_seed = rng::derive_indexed_seed(self.seed, "fleet-device", index as u64);
            let mut radio_rng =
                rng::for_indexed(device_seed, "pipeline-radio", self.scenario.seed());
            let receptions = trace.span("radio", || {
                simulate_receptions(
                    self.scenario.channel(),
                    self.scenario.advertisers(),
                    &self.config.device,
                    |t| walk.position_at(t),
                    SimTime::ZERO,
                    until,
                    &mut radio_rng,
                )
            });
            let mut scan_rng = rng::for_indexed(device_seed, "pipeline-scan", self.scenario.seed());
            let cycles = trace.span("stack", || {
                run_scan(
                    &receptions,
                    &AndroidScanner::new(stall_probability),
                    self.config.scan,
                    SimTime::ZERO,
                    until,
                    &mut scan_rng,
                )
            });
            let snapshots: Vec<Vec<TrackSnapshot>> = trace.span("signal", || {
                let mut tracks = TrackManager::new(EwmaFilter::new(
                    self.config.filter_coefficient,
                    self.config.loss_policy,
                ));
                cycles
                    .iter()
                    .map(|cycle| {
                        let observations =
                            aggregate_cycle(cycle, self.config.aggregation, &ranging);
                        tracks.update_cycle(cycle.end, &observations)
                    })
                    .collect()
            });
            receptions_n += receptions.len() as u64;
            samples_n += cycles.iter().map(|c| c.samples.len() as u64).sum::<u64>();
            cycles_n += cycles.len() as u64;
            let batched: Vec<&Vec<TrackSnapshot>> = fleet
                .iter()
                .filter(|e| e.device.value() as usize == index)
                .map(|e| &e.record.snapshots)
                .collect();
            identical &= batched.len() == snapshots.len()
                && batched
                    .iter()
                    .zip(&snapshots)
                    .all(|(a, b)| format!("{a:?}") == format!("{b:?}"));
        }
        (receptions_n, samples_n, cycles_n, identical)
    }

    /// `(one_thread, all_threads, growth_events)`: seconds of the batched
    /// fleet on one worker thread (median of `repeats`, CPU time) and on
    /// `nproc` worker threads (wall time), and scratch growth events of the
    /// last one-thread run.
    pub fn fleet_costs(&self, repeats: usize) -> (f64, f64, u64) {
        let one_thread: Vec<f64> = (0..repeats)
            .map(|_| {
                reset_batch_alloc_stats();
                let start = Stopwatch::start();
                std::hint::black_box(self.fleet());
                start.elapsed_s()
            })
            .collect();
        let growth = batch_alloc_stats().growth_events;
        let all_threads = with_wall_clock(|| {
            let start = Stopwatch::start();
            exec::with_thread_override(crate::nproc(), || std::hint::black_box(self.fleet()));
            start.elapsed_s()
        });
        (crate::stats::median(&one_thread), all_threads, growth)
    }
}

impl Workload for Office {
    fn input_hash(&self) -> u64 {
        self.hash_inputs()
    }

    fn set_tracing(&self, on: bool) {
        self.ml.set_tracing(on);
    }

    fn iterate(&mut self, trace: &mut Trace) -> IterStats {
        let (stats, _) = self.run(trace);
        if self
            .reference_digest
            .is_some_and(|d| d != stats.server.digest)
        {
            crate::fail("office_e2e: an iteration ended in a different state");
        }
        stats
    }

    fn reference(&mut self) -> IterStats {
        let (stats, delivered) = self.run(&mut Trace::off());
        let oracle = server::oracle_digest(self.model.clone(), RETENTION, self.seed, delivered);
        if stats.server.digest != oracle {
            crate::fail("office_e2e: tier state differs from the single-thread oracle");
        }
        self.reference_digest = Some(stats.server.digest);
        stats
    }
}
