//! The server side every workload shares: an `IngestTier` over a sharded
//! BMS with retention and an archive, driven one simulated tick at a time,
//! plus timed query wrappers and the single-thread oracle.

use crate::stats::percentile;
use crate::trace::{now_ns, Stopwatch, Trace};
use roomsense_net::{
    Admission, ArchiveConfig, BtRelayTransport, CountingConfig, IngestTier, IngestTierConfig,
    LeveledPopulationView, LeveledView, ObservationReport, OccupancyEstimator, Retrying, RoomLabel,
    ServiceLevel, ShardedBmsServer, Windowed,
};
use roomsense_sim::{exec, SharedDisk, SimDisk, SimDuration, SimTime};
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Shards behind every tier.
pub const SHARDS: usize = 4;
/// Extra attempts per uplink send: at the relay's 90 % success rate a
/// report is lost with probability 1e-9, so no workload loses one.
pub const UPLINK_RETRIES: u32 = 8;

/// The phone-to-BMS uplink of every workload.
pub fn uplink() -> Retrying<BtRelayTransport> {
    Retrying::new(BtRelayTransport::default(), UPLINK_RETRIES)
}

/// Wraps the estimator handed to the BMS so classification can be timed
/// from outside; with tracing off it only delegates.
pub struct TimedEstimator {
    inner: Arc<dyn OccupancyEstimator>,
    on: AtomicBool,
    spans: Mutex<Vec<(u64, u64)>>,
}

impl TimedEstimator {
    pub fn new(inner: Arc<dyn OccupancyEstimator>) -> Arc<Self> {
        Arc::new(TimedEstimator {
            inner,
            on: AtomicBool::new(false),
            spans: Mutex::new(Vec::new()),
        })
    }

    pub fn set_tracing(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    fn drain(&self) -> Vec<(u64, u64)> {
        std::mem::take(&mut *self.spans.lock().expect("classification span log poisoned"))
    }
}

impl OccupancyEstimator for TimedEstimator {
    fn classify(&self, report: &ObservationReport) -> Option<RoomLabel> {
        if !self.on.load(Ordering::Relaxed) {
            return self.inner.classify(report);
        }
        let start = now_ns();
        let label = self.inner.classify(report);
        let end = now_ns();
        self.spans
            .lock()
            .expect("classification span log poisoned")
            .push((start, end));
        label
    }
}

/// A sharded BMS with retention and an archive on its own pristine disk.
pub fn bms(
    estimator: Arc<dyn OccupancyEstimator>,
    retention: SimDuration,
    disk_seed: u64,
) -> (ShardedBmsServer, SharedDisk) {
    let disk = SharedDisk::new(SimDisk::pristine(disk_seed));
    let fleet = ShardedBmsServer::new(estimator, SHARDS)
        .with_retention(retention)
        .with_archives(disk.clone(), ArchiveConfig::default());
    (fleet, disk)
}

/// The clean oracle: the same BMS fed `reports` in order by `ingest_all`
/// on one thread.
pub fn oracle_digest(
    estimator: Arc<dyn OccupancyEstimator>,
    retention: SimDuration,
    disk_seed: u64,
    reports: Vec<ObservationReport>,
) -> u64 {
    let (oracle, _disk) = bms(estimator, retention, disk_seed);
    exec::with_thread_override(1, || oracle.ingest_all(reports));
    oracle.state_digest()
}

/// Query kinds, in metric order.
pub const QUERY_KINDS: [&str; 4] = [
    "occupancy_view",
    "population_view",
    "occupancy_at_checked",
    "reports_between",
];

/// Latency samples per query kind and per client request, plus
/// answer-quality counts.
#[derive(Debug, Default, Clone)]
pub struct Queries {
    pub latency_ns: [Vec<u64>; 4],
    /// One sample per client request: the queries recorded since the
    /// previous [`end_request`](Self::end_request), summed.
    pub request_ns: Vec<u64>,
    pending_ns: u64,
    /// Answers served at a degraded level or flagged incomplete.
    pub degraded: u64,
    /// Historical answers the archive should have made complete but did not.
    pub failed: u64,
}

impl Queries {
    pub fn count(&self) -> u64 {
        self.latency_ns.iter().map(|v| v.len() as u64).sum()
    }

    pub fn all_ns(&self) -> Vec<u64> {
        self.latency_ns.iter().flatten().copied().collect()
    }

    fn record(&mut self, kind: usize, ns: u64) {
        self.latency_ns[kind].push(ns);
        self.pending_ns += ns;
    }

    /// Ends a client request: a dashboard refresh that asks for occupancy
    /// and population together waits for both answers, so a request's
    /// latency is the sum of its queries'.
    pub fn end_request(&mut self) {
        self.request_ns.push(std::mem::take(&mut self.pending_ns));
    }

    pub fn merge(&mut self, other: &Queries) {
        for (mine, theirs) in self.latency_ns.iter_mut().zip(&other.latency_ns) {
            mine.extend_from_slice(theirs);
        }
        self.request_ns.extend_from_slice(&other.request_ns);
        self.degraded += other.degraded;
        self.failed += other.failed;
    }

    /// `(p50_us, p99_us, n)` for one kind.
    pub fn kind_stats(&self, kind: usize) -> (f64, f64, u64) {
        let mut ns = self.latency_ns[kind].clone();
        let n = ns.len() as u64;
        let p50 = percentile(&mut ns, 0.5) / 1e3;
        let p99 = percentile(&mut ns, 0.99) / 1e3;
        (p50, p99, n)
    }
}

/// One tier plus the client-side state that feeds it: reports waiting to
/// be (re-)offered in arrival order, and a shadow of each shard mailbox
/// that tells when every admitted report becomes visible to queries.
pub struct Ingest {
    pub tier: IngestTier,
    pub disk: SharedDisk,
    ml: Option<Arc<TimedEstimator>>,
    /// Arrived reports not yet admitted, with their arrival times.
    parked: VecDeque<(SimTime, ObservationReport)>,
    /// Admitted reports per shard mailbox, with their arrival times.
    shadow: Vec<VecDeque<(SimTime, ObservationReport)>>,
    service_rate: usize,
    /// Reports made visible by the latest pump.
    pub visible: Vec<ObservationReport>,
    /// Simulated ms from a report's `at` to the pump that made it visible.
    pub lag_ms: Vec<u64>,
    /// Simulated ms from a report's arrival at the tier to the pump that
    /// drained it: the wait for the next tick, refusals, and the mailbox.
    pub wait_ms: Vec<u64>,
    pub pumps: u64,
    pub accepted: u64,
    pub duplicates: u64,
    /// False once the shadow mailboxes disagree with the tier's backlog.
    pub shadow_consistent: bool,
}

impl Ingest {
    pub fn new(
        estimator: Arc<dyn OccupancyEstimator>,
        ml: Option<Arc<TimedEstimator>>,
        retention: SimDuration,
        config: IngestTierConfig,
        disk_seed: u64,
    ) -> Self {
        let (fleet, disk) = bms(estimator, retention, disk_seed);
        Ingest {
            tier: IngestTier::new(fleet, config),
            disk,
            ml,
            parked: VecDeque::new(),
            shadow: (0..SHARDS).map(|_| VecDeque::new()).collect(),
            service_rate: config.service_rate,
            visible: Vec::new(),
            lag_ms: Vec::new(),
            wait_ms: Vec::new(),
            pumps: 0,
            accepted: 0,
            duplicates: 0,
            shadow_consistent: true,
        }
    }

    /// A report reached the server at `at`; it is offered on the next tick.
    pub fn arrive(&mut self, at: SimTime, report: ObservationReport) {
        self.parked.push_back((at, report));
    }

    /// True when nothing is parked or queued.
    pub fn settled(&self) -> bool {
        self.parked.is_empty() && self.tier.backlog() == 0
    }

    /// One event-loop tick at `now`: offer parked reports in arrival order
    /// (stopping at the first refusal, so per-device order survives), then
    /// pump once.
    pub fn tick(&mut self, now: SimTime, trace: &mut Trace) {
        trace.enter("net.ingest.offer");
        while let Some((_, report)) = self.parked.front() {
            let shard = self.tier.fleet().shard_of(report.device);
            match self.tier.offer(now, report.clone()) {
                Admission::Admitted => {
                    let parked = self.parked.pop_front().expect("front exists");
                    self.shadow[shard].push_back(parked);
                }
                Admission::Backpressured => break,
            }
        }
        trace.exit();

        trace.enter("net.ingest.pump");
        let (accepted, duplicates) = self.tier.pump();
        if let Some(ml) = &self.ml {
            trace.add_children("ml.classify", ml.drain());
        }
        trace.exit();
        self.pumps += 1;
        self.accepted += accepted;
        self.duplicates += duplicates;

        self.visible.clear();
        for queue in &mut self.shadow {
            for _ in 0..self.service_rate.min(queue.len()) {
                let (arrived, report) = queue.pop_front().expect("length checked");
                self.lag_ms
                    .push(now.saturating_since(report.at).as_millis());
                self.wait_ms.push(now.saturating_since(arrived).as_millis());
                self.visible.push(report);
            }
        }
        let shadow_backlog: usize = self.shadow.iter().map(VecDeque::len).sum();
        self.shadow_consistent &= shadow_backlog == self.tier.backlog();
    }

    pub fn occupancy_view(
        &mut self,
        now: SimTime,
        ttl: SimDuration,
        queries: &mut Queries,
        trace: &mut Trace,
    ) -> LeveledView {
        let start = Stopwatch::start();
        let view = trace.span("net.query.occupancy_view", || {
            black_box(self.tier.occupancy_view(now, ttl))
        });
        queries.record(0, start.elapsed_ns());
        queries.degraded += u64::from(view.level == ServiceLevel::Degraded);
        view
    }

    pub fn population_view(
        &mut self,
        now: SimTime,
        config: &CountingConfig,
        queries: &mut Queries,
        trace: &mut Trace,
    ) -> LeveledPopulationView {
        let start = Stopwatch::start();
        let view = trace.span("net.query.population_view", || {
            black_box(self.tier.population_view(now, config))
        });
        queries.record(1, start.elapsed_ns());
        queries.degraded += u64::from(view.level == ServiceLevel::Degraded || !view.view.complete);
        view
    }

    /// Archive-aware historical occupancy. The archive is on a pristine
    /// disk, so an incomplete answer is a failed query.
    pub fn occupancy_at_checked(
        &self,
        at: SimTime,
        queries: &mut Queries,
        trace: &mut Trace,
    ) -> Windowed<BTreeMap<RoomLabel, usize>> {
        let start = Stopwatch::start();
        let answer = trace.span("net.query.occupancy_at_checked", || {
            black_box(self.tier.occupancy_at_checked(at))
        });
        queries.record(2, start.elapsed_ns());
        queries.failed += u64::from(!answer.complete);
        answer
    }

    pub fn reports_between(
        &self,
        from: SimTime,
        to: SimTime,
        queries: &mut Queries,
        trace: &mut Trace,
    ) -> Vec<ObservationReport> {
        let start = Stopwatch::start();
        let rows = trace.span("net.query.reports_between", || {
            black_box(self.tier.fleet().reports_between(from, to))
        });
        queries.record(3, start.elapsed_ns());
        rows
    }
}

/// Historical queries per kind in [`history_probe`].
pub const PROBE_QUERIES: u64 = 50;
const PROBE_WINDOW: SimDuration = SimDuration::from_secs(60);

/// `occupancy_at_checked` and `reports_between` (60 s windows) at
/// `PROBE_QUERIES` instants spread evenly over `(0, end]`. The office and
/// surge dashboards never ask for history, so their traced iterations run
/// this probe, untimed, to report both kinds' per-layer latencies.
pub fn history_probe(ingest: &Ingest, end: SimTime) -> Queries {
    let mut queries = Queries::default();
    let mut off = Trace::off();
    for k in 1..=PROBE_QUERIES {
        let at = SimTime::from_millis(end.as_millis() * k / PROBE_QUERIES);
        let from = SimTime::from_millis(at.as_millis().saturating_sub(PROBE_WINDOW.as_millis()));
        ingest.occupancy_at_checked(at, &mut queries, &mut off);
        ingest.reports_between(from, at, &mut queries, &mut off);
    }
    queries
}

/// Server-side counters of one finished iteration.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerCounts {
    pub offers: u64,
    pub admitted: u64,
    pub refused: u64,
    pub pumps: u64,
    pub peak_mailbox_depth: u64,
    pub archive_bytes: u64,
    pub segments_sealed: u64,
    pub disk_appends: u64,
    pub digest: u64,
}

impl ServerCounts {
    pub fn of(ingest: &Ingest) -> Self {
        let archive = ingest.tier.fleet().archive_stats().unwrap_or_default();
        ServerCounts {
            offers: ingest.tier.admitted() + ingest.tier.shed(),
            admitted: ingest.tier.admitted(),
            refused: ingest.tier.shed(),
            pumps: ingest.pumps,
            peak_mailbox_depth: ingest.tier.peak_mailbox_depth() as u64,
            archive_bytes: archive.bytes_appended,
            segments_sealed: archive.segments_sealed,
            disk_appends: ingest.disk.stats().appends,
            digest: ingest.tier.state_digest(),
        }
    }
}

/// Mean absolute per-room error of population estimates against truth.
pub fn population_mae(view: &roomsense_net::PopulationView, truth: &[usize]) -> f64 {
    let error: f64 = truth
        .iter()
        .enumerate()
        .map(|(room, &t)| {
            let estimate = view.rooms.get(&room).map_or(0.0, |e| e.count);
            (estimate - t as f64).abs()
        })
        .sum();
    error / truth.len().max(1) as f64
}
