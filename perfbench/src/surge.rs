//! `surge_ingest`: server writes under backpressure. A lecture-hall crowd's
//! reports reach a gateway that flushes each minute as one burst over the
//! relay into an ingest tier with retention and an archive. Refused reports
//! are re-offered in order on later ticks. A minor→room closure stands in
//! for the SVM, so the phone and `ml` layers do no work.

use crate::server::{self, Ingest, Queries, TimedEstimator};
use crate::trace::{Stopwatch, Trace};
use crate::workload::IterStats;
use crate::{Report, Workload};
use roomsense::crowd::{self, CrowdPreset, CrowdScenario};
use roomsense::experiments::fnv1a;
use roomsense_net::{
    CountingConfig, DeviceId, IngestTierConfig, OccupancyEstimator, SendOutcome, Transport,
};
use roomsense_sim::{rng, SimDuration, SimTime};
use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;
use std::sync::Arc;

const SUBJECTS: usize = 2000;
const RETENTION: SimDuration = SimDuration::from_secs(300);
const FLUSH_S: u64 = 60;
/// The dashboard asks for occupancy and a scored population every
/// `QUERY_EVERY_S`.
const QUERY_EVERY_S: u64 = 10;
const VIEW_TTL: SimDuration = SimDuration::from_secs(150);

/// The room a report's only beacon names: the crowd replay puts the room
/// index in the minor.
pub fn minor_room(report: &Report) -> Option<usize> {
    report
        .beacons
        .first()
        .map(|b| b.identity.minor.value() as usize)
}

pub struct Surge {
    seed: u64,
    scenario: CrowdScenario,
    reports: Vec<Report>,
    /// Report index ranges flushed at the end of each minute.
    bursts: Vec<Range<usize>>,
    /// True per-room headcount at each query tick.
    truth: Vec<Vec<usize>>,
    /// Each device's room per its last report.
    last_room: BTreeMap<DeviceId, usize>,
    ml: Arc<TimedEstimator>,
    reference_digest: Option<u64>,
}

impl Surge {
    pub fn setup(seed: u64) -> Surge {
        let scenario = CrowdPreset::LectureHallSurge.scenario_with(seed, SUBJECTS);
        let reports = crowd::replay_reports(&scenario, seed);
        let minutes = scenario.duration.as_millis().div_ceil(FLUSH_S * 1000) as usize;
        let mut bursts = Vec::with_capacity(minutes);
        let mut begin = 0;
        for minute in 1..=minutes as u64 {
            let end_ms = minute * FLUSH_S * 1000;
            let end = begin + reports[begin..].partition_point(|r| r.at.as_millis() < end_ms);
            bursts.push(begin..end);
            begin = end;
        }
        let duration_s = scenario.duration.as_millis() / 1000;
        let truth = (1..=duration_s / QUERY_EVERY_S)
            .map(|k| {
                scenario
                    .trace
                    .occupancy(SimTime::from_secs(k * QUERY_EVERY_S))
            })
            .collect();
        let last_room = reports
            .iter()
            .filter_map(|r| minor_room(r).map(|room| (r.device, room)))
            .collect();
        let closure: Arc<dyn OccupancyEstimator> = Arc::new(minor_room);
        Surge {
            seed,
            scenario,
            reports,
            bursts,
            truth,
            last_room,
            ml: TimedEstimator::new(closure),
            reference_digest: None,
        }
    }
}

impl Workload for Surge {
    fn input_hash(&self) -> u64 {
        fnv1a(&format!("{:?}{:?}", self.reports, self.truth))
    }

    fn set_tracing(&self, on: bool) {
        self.ml.set_tracing(on);
    }

    fn iterate(&mut self, trace: &mut Trace) -> IterStats {
        let counting = CountingConfig::default().with_carry_rate(self.scenario.carry_rate);
        let mut stats = IterStats {
            reports_offered: self.reports.len() as u64,
            ..IterStats::default()
        };
        let start = Stopwatch::start();
        trace.enter("iteration");
        let estimator: Arc<dyn OccupancyEstimator> = self.ml.clone();
        let mut ingest = Ingest::new(
            estimator,
            Some(Arc::clone(&self.ml)),
            RETENTION,
            IngestTierConfig::default(),
            self.seed,
        );
        let mut uplink = server::uplink();
        let mut uplink_rng = rng::for_component(self.seed, "perfbench-gateway");
        let mut in_flight: VecDeque<(SimTime, Range<usize>)> = VecDeque::new();
        let mut queries = Queries::default();
        let last_flush_s = self.bursts.len() as u64 * FLUSH_S;
        let mut tick = 0u64;
        loop {
            tick += 1;
            let now = SimTime::from_secs(tick);
            if tick.is_multiple_of(FLUSH_S) {
                if let Some(burst) = self.bursts.get((tick / FLUSH_S - 1) as usize) {
                    let batch = &self.reports[burst.clone()];
                    let outcome = trace.span("net.transport", || {
                        uplink.send_batch(now, batch, &mut uplink_rng)
                    });
                    if let SendOutcome::Delivered { at } = outcome {
                        stats
                            .transport
                            .delay_ms
                            .push(at.saturating_since(now).as_millis());
                        in_flight.push_back((at, burst.clone()));
                    }
                }
            }
            while in_flight.front().is_some_and(|(at, _)| *at <= now) {
                let (at, burst) = in_flight.pop_front().expect("front exists");
                for report in &self.reports[burst] {
                    ingest.arrive(at, report.clone());
                }
            }
            ingest.tick(now, trace);
            if tick.is_multiple_of(QUERY_EVERY_S) {
                ingest.occupancy_view(now, VIEW_TTL, &mut queries, trace);
                let population = ingest.population_view(now, &counting, &mut queries, trace);
                queries.end_request();
                if let Some(truth) = self.truth.get((tick / QUERY_EVERY_S - 1) as usize) {
                    stats.mae_sum += server::population_mae(&population.view.value, truth);
                    stats.mae_n += 1;
                }
            }
            if tick >= last_flush_s && in_flight.is_empty() && ingest.settled() {
                break;
            }
        }
        trace.exit();
        stats.cpu_s = start.elapsed_s();
        if trace.is_on() {
            stats.probe = server::history_probe(&ingest, SimTime::from_secs(last_flush_s));
        }
        stats.transport.read(&uplink);
        for (device, room) in &self.last_room {
            let believed = ingest.tier.fleet().room_of(*device);
            stats.accuracy_hits += u64::from(believed == Some(*room));
            stats.accuracy_total += 1;
        }
        stats.reports_ingested = ingest.accepted;
        stats.classifications = ingest.accepted;
        stats.queries = queries;
        stats.lag_ms = std::mem::take(&mut ingest.lag_ms);
        stats.wait_ms = std::mem::take(&mut ingest.wait_ms);
        stats.server = server::ServerCounts::of(&ingest);
        stats.layers = trace.summary();
        if !ingest.shadow_consistent || ingest.duplicates > 0 {
            crate::fail("surge_ingest: tier backlog diverged from the offered reports");
        }
        if let Some(digest) = self.reference_digest {
            if digest != stats.server.digest {
                crate::fail("surge_ingest: an iteration ended in a different state");
            }
        }
        stats
    }

    fn reference(&mut self) -> IterStats {
        let stats = self.iterate(&mut Trace::off());
        let oracle = server::oracle_digest(
            Arc::new(minor_room),
            RETENTION,
            self.seed,
            self.reports.clone(),
        );
        if stats.server.digest != oracle {
            crate::fail("surge_ingest: tier state differs from the single-thread oracle");
        }
        eprintln!(
            "perfbench: surge_ingest reference: {} reports, {} refused offers, count MAE {:.3}",
            self.reports.len(),
            stats.server.refused,
            stats.mae_sum / stats.mae_n.max(1) as f64
        );
        if stats.server.refused == 0 {
            crate::fail("surge_ingest: no report was refused, so backpressure went unmeasured");
        }
        self.reference_digest = Some(stats.server.digest);
        stats
    }

    fn mae_bound(&self) -> Option<f64> {
        // The tier is driven past capacity, the counting gate's overload case.
        Some(crate::scaled_bound(
            self.scenario.mae_bounds.overload,
            &self.scenario,
        ))
    }
}
