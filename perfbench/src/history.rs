//! `history_reads`: the server layers used for reads. A BLEBeacon-shaped
//! trace replay is ingested during set-up with short retention, so most
//! history lives in the archive. The timed phase is a closed loop of one
//! client issuing a seeded mix of the four query kinds in equal shares;
//! after every 10 queries one more report arrives over the relay (writes
//! beside reads). The loop runs in rounds of `ROUND_SEGMENTS` segments,
//! each from the loaded history, so every run measures the same segments.

use crate::server::{self, Ingest, Queries, TimedEstimator};
use crate::surge::minor_room;
use crate::trace::{Stopwatch, Trace};
use crate::workload::IterStats;
use crate::{Report, Workload};
use rand::rngs::StdRng;
use rand::Rng;
use roomsense::crowd::{self, CrowdPreset, CrowdScenario};
use roomsense::experiments::fnv1a;
use roomsense_net::{
    BtRelayTransport, CountingConfig, IngestTierConfig, OccupancyEstimator, Retrying, SendOutcome,
    ShardedBmsServer, Transport,
};
use roomsense_sim::{exec, rng, SimDuration, SimTime};
use std::sync::Arc;

const SUBJECTS: usize = 2000;
const RETENTION: SimDuration = SimDuration::from_secs(300);
/// The first `LOADED` reports are history loaded at set-up; the rest are
/// the live write stream. A count, not an instant, because a historical
/// query's cost grows with the history: the reports before 1200 s ranged
/// 6864-7323 over five seeds, and the query rate fell from 5321 to 4594
/// queries/s across them.
const LOADED: usize = 6500;
const QUERIES_PER_SEGMENT: usize = 200;
/// One report is written after every `QUERIES_PER_WRITE` queries.
const QUERIES_PER_WRITE: u32 = 10;
const LOAD_PROBE_EVERY_S: u64 = 30;
const VIEW_TTL: SimDuration = SimDuration::from_secs(150);
const HISTORY_WINDOW: SimDuration = SimDuration::from_secs(60);
/// Historical instants stay this far behind the write frontier, so every
/// report at or before them has been pumped.
const SETTLED_MARGIN_MS: u64 = 10_000;
/// Answers compared against the unbounded reference server, per kind.
const CHECKED_ANSWERS: usize = 40;
/// Segments per round (500 writes). Every round starts from the loaded
/// history: a historical query costs more as the archive grows (segment
/// CPU time doubled over 25 s of an unbounded loop), so a loop that ran on
/// would measure later, dearer segments on a faster host.
const ROUND_SEGMENTS: usize = 25;

pub struct History {
    seed: u64,
    scenario: CrowdScenario,
    /// History, in arrival order.
    loaded: Vec<Report>,
    /// The live write stream, in report order.
    stream: Vec<Report>,
    round: Round,
    /// Segments the current round has run.
    segments: usize,
    /// The final state digest of a full round, once checked against the
    /// oracle.
    round_digest: Option<u64>,
    /// Reports ingested while settling ended rounds.
    drained: u64,
    ml: Arc<TimedEstimator>,
    /// Summed population MAE and probe count, scored while loading.
    load_mae: (f64, u64),
}

/// The closed loop's state: a tier loaded with the history, and the
/// client's progress through the write stream and its query mix.
struct Round {
    next_write: usize,
    /// Reports handed to the tier by the closed loop, in arrival order.
    written: Vec<Report>,
    ingest: Ingest,
    clock_s: u64,
    uplink: Retrying<BtRelayTransport>,
    uplink_rng: StdRng,
    mix: StdRng,
    until_write: u32,
}

impl History {
    /// Generates the trace and loads its history into the tier.
    pub fn setup(seed: u64) -> History {
        let scenario = CrowdPreset::TraceReplay.scenario_with(seed, SUBJECTS);
        let mut reports = crowd::replay_reports(&scenario, seed);
        let stream = reports.split_off(LOADED.min(reports.len()));
        let closure: Arc<dyn OccupancyEstimator> = Arc::new(minor_room);
        let ml = TimedEstimator::new(closure);
        let (round, load_mae) = Round::load(seed, &scenario, &reports, &ml);
        History {
            seed,
            scenario,
            loaded: reports,
            stream,
            round,
            segments: 0,
            round_digest: None,
            drained: 0,
            ml,
            load_mae,
        }
    }

    /// Settles the current round and checks the tier against the
    /// single-thread oracle, or against a full round's digest that was.
    fn check_round(&mut self) {
        let mut stats = IterStats::default();
        self.round.settle(&mut stats);
        self.drained += stats.reports_ingested;
        let ingest = &self.round.ingest;
        let digest = ingest.tier.state_digest();
        let full = self.segments == ROUND_SEGMENTS;
        if !(full && self.round_digest == Some(digest)) {
            let mut all = self.loaded.clone();
            all.extend(self.round.written.iter().cloned());
            let oracle = server::oracle_digest(Arc::new(minor_room), RETENTION, self.seed, all);
            if oracle != digest {
                crate::fail("history_reads: tier state differs from the single-thread oracle");
            }
            if full {
                self.round_digest = Some(digest);
            }
        }
        if !ingest.shadow_consistent || ingest.duplicates > 0 {
            crate::fail("history_reads: tier backlog diverged from the offered reports");
        }
    }

    /// Checks the current round and starts the next from the loaded history.
    fn next_round(&mut self) {
        self.check_round();
        self.round = Round::load(self.seed, &self.scenario, &self.loaded, &self.ml).0;
        self.segments = 0;
    }
}

impl Round {
    /// Loads `reports` into a fresh tier, pumping once per simulated second;
    /// returns the round and the population MAE scored while loading.
    fn load(
        seed: u64,
        scenario: &CrowdScenario,
        reports: &[Report],
        ml: &Arc<TimedEstimator>,
    ) -> (Round, (f64, u64)) {
        let estimator: Arc<dyn OccupancyEstimator> = ml.clone();
        let mut ingest = Ingest::new(
            estimator,
            Some(Arc::clone(ml)),
            RETENTION,
            IngestTierConfig::default(),
            seed,
        );
        let counting = CountingConfig::default().with_carry_rate(scenario.carry_rate);
        let mut off = Trace::off();
        let mut next = 0;
        let mut clock_s = 0;
        let mut load_mae = (0.0, 0);
        while next < reports.len() || !ingest.settled() {
            clock_s += 1;
            let now = SimTime::from_secs(clock_s);
            while next < reports.len() && reports[next].at <= now {
                ingest.arrive(reports[next].at, reports[next].clone());
                next += 1;
            }
            ingest.tick(now, &mut off);
            // The closed loop only ever reaches the last minutes of the
            // trace, so counting accuracy is scored while history loads.
            if clock_s % LOAD_PROBE_EVERY_S == 0 {
                let view = ingest.tier.population_view(now, &counting);
                load_mae.0 +=
                    server::population_mae(&view.view.value, &scenario.trace.occupancy(now));
                load_mae.1 += 1;
            }
        }
        ingest.lag_ms.clear();
        ingest.wait_ms.clear();
        let round = Round {
            next_write: 0,
            written: Vec::new(),
            ingest,
            clock_s,
            uplink: server::uplink(),
            uplink_rng: rng::for_component(seed, "perfbench-uplink"),
            mix: rng::for_component(seed, "perfbench-query-mix"),
            until_write: 0,
        };
        (round, load_mae)
    }

    fn frontier(&self) -> SimTime {
        SimTime::from_secs(self.clock_s)
    }

    /// Sends the next stream report, if any is left; it is offered at the
    /// first whole-second tick at or after its arrival.
    fn write_one(&mut self, stream: &[Report], stats: &mut IterStats, trace: &mut Trace) {
        let Some(report) = stream.get(self.next_write).cloned() else {
            return;
        };
        self.next_write += 1;
        stats.reports_offered += 1;
        let outcome = trace.span("net.transport", || {
            self.uplink.send(report.at, &report, &mut self.uplink_rng)
        });
        let SendOutcome::Delivered { at } = outcome else {
            return;
        };
        stats
            .transport
            .delay_ms
            .push(at.saturating_since(report.at).as_millis());
        while SimTime::from_secs(self.clock_s + 1) < at {
            self.clock_s += 1;
            let before = self.ingest.accepted;
            self.ingest.tick(self.frontier(), trace);
            stats.reports_ingested += self.ingest.accepted - before;
        }
        self.ingest.arrive(at, report.clone());
        self.written.push(report);
    }

    /// Pumps until every written report is visible.
    fn settle(&mut self, stats: &mut IterStats) {
        let mut off = Trace::off();
        while !self.ingest.settled() {
            self.clock_s += 1;
            let before = self.ingest.accepted;
            self.ingest.tick(self.frontier(), &mut off);
            stats.reports_ingested += self.ingest.accepted - before;
        }
    }

    /// One segment of the closed loop: `QUERIES_PER_SEGMENT` queries and the
    /// writes interleaved with them. With `checked`, returns the answers to
    /// compare against the reference server.
    fn segment(
        &mut self,
        stream: &[Report],
        counting: &CountingConfig,
        trace: &mut Trace,
        mut checked: Option<&mut Checked>,
    ) -> IterStats {
        let mut stats = IterStats::default();
        let mut queries = Queries::default();
        let start = Stopwatch::start();
        trace.enter("iteration");
        for _ in 0..QUERIES_PER_SEGMENT {
            if self.until_write == 0 {
                self.write_one(stream, &mut stats, trace);
                self.until_write = QUERIES_PER_WRITE;
            }
            self.until_write -= 1;
            let frontier_ms = self.frontier().as_millis();
            let settled_ms = frontier_ms.saturating_sub(SETTLED_MARGIN_MS);
            // The four kinds in equal shares.
            match self.mix.gen_range(0..4) {
                0 => {
                    let now = self.frontier();
                    self.ingest
                        .occupancy_view(now, VIEW_TTL, &mut queries, trace);
                }
                1 => {
                    // Inside the retained span, so the evidence window is whole.
                    let lo = frontier_ms
                        .saturating_sub(RETENTION.as_millis() - counting.window.as_millis());
                    let at = SimTime::from_millis(self.mix.gen_range(lo..=settled_ms));
                    self.ingest
                        .population_view(at, counting, &mut queries, trace);
                }
                2 => {
                    let at = SimTime::from_millis(self.mix.gen_range(0..settled_ms));
                    let answer = self.ingest.occupancy_at_checked(at, &mut queries, trace);
                    if let Some(c) = checked.as_deref_mut() {
                        if c.occupancy.len() < CHECKED_ANSWERS {
                            c.occupancy.push((at, answer.value));
                        }
                    }
                }
                _ => {
                    let lo = frontier_ms.saturating_sub(RETENTION.as_millis());
                    let hi = settled_ms
                        .saturating_sub(HISTORY_WINDOW.as_millis())
                        .max(lo);
                    let from = SimTime::from_millis(self.mix.gen_range(lo..=hi));
                    let to = from + HISTORY_WINDOW;
                    let rows = self.ingest.reports_between(from, to, &mut queries, trace);
                    if let Some(c) = checked.as_deref_mut() {
                        if c.rows.len() < CHECKED_ANSWERS {
                            c.rows.push((from, to, rows));
                        }
                    }
                }
            }
            // The client waits for each answer before it asks again.
            queries.end_request();
        }
        trace.exit();
        stats.cpu_s = start.elapsed_s();
        stats.queries = queries;
        stats.lag_ms = std::mem::take(&mut self.ingest.lag_ms);
        stats.wait_ms = std::mem::take(&mut self.ingest.wait_ms);
        stats.layers = trace.summary();
        stats
    }
}

/// Answers recorded for comparison with an unbounded reference server.
#[derive(Default)]
struct Checked {
    occupancy: Vec<(SimTime, std::collections::BTreeMap<usize, usize>)>,
    rows: Vec<(SimTime, SimTime, Vec<Report>)>,
}

impl Workload for History {
    fn input_hash(&self) -> u64 {
        let mut mix = rng::for_component(self.seed, "perfbench-query-mix");
        let draws: Vec<u64> = (0..64).map(|_| mix.gen_range(0..u64::MAX)).collect();
        fnv1a(&format!("{:?}{:?}{draws:?}", self.loaded, self.stream))
    }

    fn set_tracing(&self, on: bool) {
        self.ml.set_tracing(on);
    }

    fn iterate(&mut self, trace: &mut Trace) -> IterStats {
        if self.segments == ROUND_SEGMENTS {
            self.next_round();
        }
        self.segments += 1;
        let counting = CountingConfig::default().with_carry_rate(self.scenario.carry_rate);
        self.round.segment(&self.stream, &counting, trace, None)
    }

    fn reference(&mut self) -> IterStats {
        let mut checked = Checked::default();
        let counting = CountingConfig::default().with_carry_rate(self.scenario.carry_rate);
        let round = &mut self.round;
        let mut stats = round.segment(
            &self.stream,
            &counting,
            &mut Trace::off(),
            Some(&mut checked),
        );
        round.settle(&mut stats);
        stats.lag_ms.append(&mut round.ingest.lag_ms);
        // Unbounded reference: every report the tier has seen, no retention.
        let reference = ShardedBmsServer::new(Arc::new(minor_room), server::SHARDS);
        let mut all = self.loaded.clone();
        all.extend(round.written.iter().cloned());
        exec::with_thread_override(1, || reference.ingest_all(all));
        for (at, answer) in &checked.occupancy {
            if reference.occupancy_at(*at) != *answer {
                crate::fail(&format!("history_reads: occupancy_at_checked({at}) disagrees with the unbounded reference"));
            }
        }
        for (from, to, rows) in &checked.rows {
            if reference.reports_between(*from, *to) != *rows {
                crate::fail(&format!("history_reads: reports_between({from}, {to}) disagrees with the unbounded reference"));
            }
        }
        let devices: std::collections::BTreeSet<_> = self
            .loaded
            .iter()
            .chain(&round.written)
            .map(|r| r.device)
            .collect();
        for device in devices {
            stats.accuracy_total += 1;
            stats.accuracy_hits +=
                u64::from(round.ingest.tier.fleet().room_of(device) == reference.room_of(device));
        }
        eprintln!(
            "perfbench: history_reads reference: {} reports loaded, {} in the write stream",
            self.loaded.len(),
            self.stream.len()
        );
        stats.server = server::ServerCounts::of(&round.ingest);
        stats.transport.read(&round.uplink);
        (stats.mae_sum, stats.mae_n) = self.load_mae;
        stats.classifications = round.ingest.accepted;
        // The timed rounds start from the loaded history.
        self.next_round();
        stats
    }

    fn mae_bound(&self) -> Option<f64> {
        Some(crate::scaled_bound(
            self.scenario.mae_bounds.clean,
            &self.scenario,
        ))
    }

    fn closed_loop(&self) -> bool {
        true
    }

    fn finish(&mut self) -> u64 {
        self.check_round();
        self.drained
    }
}
