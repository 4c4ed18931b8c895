//! The `chaos` arm: end-to-end reliable delivery under duplicates,
//! reorder, crash/restore and failover.

use super::{pump_queue, sequenced_report_from_snapshots, ExperimentCtx, ExperimentReport};
use crate::{collect_dataset, BatchConfig, OccupancyModel, PipelineConfig, Scenario};
use roomsense_building::presets;
use roomsense_energy::{account, PowerProfile, UplinkArchitecture, UsageTimeline};
use roomsense_ml::SvmParams;
use roomsense_net::{BtRelayTransport, DeviceId, ObservationReport, WifiTransport};
use roomsense_sim::{exec, rng, SimDuration, SimTime};
use std::sync::Arc;

/// One cell of the chaos sweep: one outage pattern under one `(failover,
/// dedup)` configuration of the delivery stack.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosCell {
    /// Outage pattern name (`calm`, `blackout`, `storm`).
    pub pattern: String,
    /// Whether the uplink ran through the Wi-Fi→BT
    /// [`FailoverTransport`](roomsense_net::FailoverTransport)
    /// (`false` = Wi-Fi only).
    pub failover: bool,
    /// Whether the server ingested through the idempotent `(device, seq)`
    /// dedup endpoint (`false` = legacy `post_observation`).
    pub dedup: bool,
    /// Reports the fleet offered to the queue.
    pub offered: u64,
    /// Distinct reports delivered at least once.
    pub delivered: u64,
    /// Reports evicted from the full queue (lost forever).
    pub dropped: u64,
    /// Retransmissions caused by lost acks (each one a wire duplicate).
    pub retransmits: u64,
    /// Wire deliveries beyond the first per `(device, seq)`.
    pub duplicates_on_wire: u64,
    /// Duplicates the server's dedup window rejected.
    pub duplicates_rejected: u64,
    /// Sends the failover path redirected to the secondary radio.
    pub failover_sends: u64,
    /// Recovery probes the failover path sent while the primary was down.
    pub probes: u64,
    /// Server crashes survived via checkpoint + journal replay.
    pub crashes: u64,
    /// Journal entries replayed across all restarts.
    pub replayed: u64,
    /// Uplink radio energy for the run, mJ.
    pub energy_mj: f64,
    /// Final occupancy table equals the clean oracle's.
    pub view_matches_oracle: bool,
    /// Stored-report count equals the distinct delivered count (vacuously
    /// true when `dedup` is off — duplicates are then expected effects).
    pub exactly_once_ok: bool,
    /// Every device's believed room is its last-writer report's room
    /// (no straggler or duplicate ever rolled a device backwards).
    pub monotone_ok: bool,
    /// Queue backlog and dedup windows stayed within their bounds.
    pub bounded_ok: bool,
}

impl ChaosCell {
    /// All invariants that apply to this cell hold.
    pub fn invariants_hold(&self) -> bool {
        self.exactly_once_ok && self.monotone_ok && self.bounded_ok
    }
}

/// The full chaos sweep: outage patterns × failover on/off × dedup on/off.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosResult {
    /// One cell per configuration, pattern-major.
    pub cells: Vec<ChaosCell>,
}

impl ChaosResult {
    /// Every cell's applicable invariants hold.
    pub fn all_invariants_hold(&self) -> bool {
        self.cells.iter().all(ChaosCell::invariants_hold)
    }

    /// Every fully reliable cell (failover + dedup) converged to the clean
    /// oracle's occupancy view.
    pub fn reliable_cells_match_oracle(&self) -> bool {
        self.cells
            .iter()
            .filter(|c| c.failover && c.dedup)
            .all(|c| c.view_matches_oracle)
    }
}

/// Queue capacity used by every chaos cell. Sized so the short outages fit
/// in the backlog but a full blackout overflows a Wi-Fi-only uplink — the
/// sweep's point is that failover avoids that loss.
const CHAOS_QUEUE_CAPACITY: usize = 256;


impl ExperimentCtx {
    /// End-to-end reliable-delivery sweep (the `repro chaos` arm): one clean
    /// fleet run is replayed through twelve delivery stacks — three outage
    /// patterns (`calm`, a handcrafted `blackout` with a mid-run server crash,
    /// and a seeded `storm` drawn from [`FaultPlan`](crate::FaultPlan)) crossed
    /// with Wi-Fi→BT failover on/off and server-side `(device, seq)` dedup
    /// on/off. Every cell runs with lossy acks (25 %), so retransmission
    /// duplicates and backoff-induced reordering are always present; cells with
    /// a crash window restore the BMS from its last periodic checkpoint and
    /// replay the journal tail.
    ///
    /// Each cell is compared against a clean oracle (every offered report
    /// ingested exactly once, in order) and checked against three invariants:
    /// exactly-once ingestion effects (dedup cells), monotone per-device
    /// last-writer state (all cells), and bounded queue/dedup memory (all
    /// cells). Deterministic for a fixed `seed` regardless of thread count:
    /// the fleet runs once up front and each cell draws an indexed RNG stream.
    pub fn chaos(&self) -> ChaosResult {
        use roomsense_building::mobility::{MobilityModel, RoomSchedule};
        use roomsense_building::RoomId;
        use roomsense_net::{
            FailoverTransport, FaultyTransport, LinkHealthConfig, OccupancyEstimator,
            QueueingTransport, SequenceStamper, ShardedBmsServer, TransportEvent,
        };
        use roomsense_sim::{FaultSchedule, FaultWindow};
        use std::collections::{BTreeMap, BTreeSet};
        let seed = self.seed;

        let scenario = Scenario::from_plan(presets::paper_house(), seed);
        let config = PipelineConfig::paper_android();
        let labelled = collect_dataset(&scenario, &config, SimDuration::from_secs(40), 3, seed);
        let model = OccupancyModel::fit(&labelled, &SvmParams::default())
            .expect("collection walk yields a multi-class dataset");

        let duration = SimDuration::from_secs(600);
        let drain = SimDuration::from_secs(600);
        let itineraries: [&[(RoomId, SimDuration)]; 2] = [
            &[
                (RoomId::new(0), SimDuration::from_secs(280)),
                (RoomId::new(2), SimDuration::from_secs(320)),
            ],
            &[
                (RoomId::new(4), SimDuration::from_secs(360)),
                (RoomId::new(1), SimDuration::from_secs(240)),
            ],
        ];
        let walks: Vec<RoomSchedule> = itineraries
            .iter()
            .enumerate()
            .map(|(i, visits)| {
                let mut r = rng::for_indexed(seed, "chaos-walk", i as u64);
                RoomSchedule::generate(scenario.plan(), visits, 1.2, SimTime::ZERO, &mut r)
            })
            .collect();
        let occupants: Vec<&dyn MobilityModel> = walks.iter().map(|w| w as _).collect();

        // The radio/fleet side runs once, clean: chaos lives in the uplink and
        // the server, so every cell replays the same sequenced report stream.
        let events = crate::run_fleet_batched(
            &scenario,
            &config,
            &occupants,
            duration,
            seed,
            &BatchConfig::default(),
        );
        let mut stamper = SequenceStamper::new();
        let reports: Vec<(SimTime, ObservationReport)> = events
            .iter()
            .filter(|e| !e.record.snapshots.is_empty())
            .map(|e| {
                (
                    e.at,
                    sequenced_report_from_snapshots(&mut stamper, e.device, e.at, &e.record.snapshots),
                )
            })
            .collect();
        let devices: BTreeSet<DeviceId> = reports.iter().map(|(_, r)| r.device).collect();

        // The clean oracle: every offered report, exactly once, in order.
        let oracle = ShardedBmsServer::new(Arc::new(model.clone()), 1);
        for (_, report) in &reports {
            oracle.ingest(report.clone());
        }
        let oracle_occupancy = oracle.occupancy();

        let storm_plan =
            crate::FaultPlan::generate(scenario.advertisers().len(), duration, 0.6, seed);
        let patterns: Vec<(&'static str, FaultSchedule, FaultSchedule)> = vec![
            ("calm", FaultSchedule::none(), FaultSchedule::none()),
            (
                "blackout",
                FaultSchedule::new(vec![FaultWindow::new(
                    SimTime::from_secs(240),
                    SimTime::from_secs(540),
                )]),
                FaultSchedule::new(vec![FaultWindow::new(
                    SimTime::from_secs(400),
                    SimTime::from_secs(460),
                )]),
            ),
            (
                "storm",
                storm_plan.uplink_outages.clone(),
                storm_plan.server_crashes.clone(),
            ),
        ];

        let mut specs: Vec<(usize, bool, bool)> = Vec::new();
        for p in 0..patterns.len() {
            for failover in [false, true] {
                for dedup in [false, true] {
                    specs.push((p, failover, dedup));
                }
            }
        }

        let span = duration + drain;
        let cells = exec::par_map_indexed(&specs, |index, &(p, failover, dedup)| {
            let (pattern_name, wifi_outages, crash_schedule) = &patterns[p];
            let mut cell_rng = rng::for_indexed(seed, "chaos-cell", index as u64);
            let price = |events: &[TransportEvent], arch: UplinkArchitecture| {
                let timeline = UsageTimeline {
                    duration: span,
                    scan_active: duration,
                    transport_events: events.to_vec(),
                };
                account(&PowerProfile::galaxy_s3_mini(), &timeline, arch).total_mj()
            };
            let wifi = || {
                FaultyTransport::new(
                    WifiTransport::new(0.99, SimDuration::from_millis(50)),
                    wifi_outages.clone(),
                )
            };

            // Lossy acks on every cell: retransmission duplicates and the
            // reordering they cause are the load the server must tolerate.
            // The crash schedule wraps the whole chain — a dead server refuses
            // both radios.
            let (mut deliveries, offered, delivered, dropped, retransmits, pending, fo_sends, probes, energy_mj);
            if failover {
                let chain = FaultyTransport::new(
                    FailoverTransport::new(
                        wifi(),
                        BtRelayTransport::default(),
                        LinkHealthConfig::default(),
                    ),
                    crash_schedule.clone(),
                );
                let mut queue =
                    QueueingTransport::new(chain, CHAOS_QUEUE_CAPACITY, SimDuration::from_secs(2))
                        .with_ack_loss(0.25);
                deliveries = pump_queue(&mut queue, &reports, duration, drain, &mut cell_rng);
                offered = queue.offered();
                delivered = queue.delivered_reports();
                dropped = queue.dropped();
                retransmits = queue.retransmits();
                pending = queue.pending();
                fo_sends = queue.inner().inner().failover_sends();
                probes = queue.inner().inner().probes();
                energy_mj = price(
                    &queue.telemetry().transport_events(),
                    UplinkArchitecture::Failover,
                );
            } else {
                let chain = FaultyTransport::new(wifi(), crash_schedule.clone());
                let mut queue =
                    QueueingTransport::new(chain, CHAOS_QUEUE_CAPACITY, SimDuration::from_secs(2))
                        .with_ack_loss(0.25);
                deliveries = pump_queue(&mut queue, &reports, duration, drain, &mut cell_rng);
                offered = queue.offered();
                delivered = queue.delivered_reports();
                dropped = queue.dropped();
                retransmits = queue.retransmits();
                pending = queue.pending();
                fo_sends = 0;
                probes = 0;
                energy_mj = price(
                    &queue.telemetry().transport_events(),
                    UplinkArchitecture::Wifi,
                );
            }
            // Arrival order with a deterministic tie-break, so ingestion is
            // identical across thread counts.
            deliveries.sort_by_key(|d| (d.at, d.report.device, d.report.seq));

            // Ingest in arrival order, checkpointing periodically; at each
            // crash-window start the in-memory server is lost and restarts from
            // the last checkpoint plus the journal tail.
            let crash_windows = crash_schedule.windows();
            let checkpoint_every = SimDuration::from_secs(120);
            let mut server = ShardedBmsServer::new(Arc::new(model.clone()), 1);
            let mut checkpoint = server.checkpoint();
            let mut checkpoint_len = 0usize;
            let mut next_checkpoint = SimTime::ZERO + checkpoint_every;
            let mut journal: Vec<ObservationReport> = Vec::new();
            let mut crash_idx = 0usize;
            let mut crashes = 0u64;
            let mut replayed = 0u64;
            let end_of_run = SimTime::ZERO + span;
            let restart = |server: &mut ShardedBmsServer,
                               checkpoint: &roomsense_net::ShardedBmsCheckpoint,
                               journal: &[ObservationReport],
                               checkpoint_len: usize| {
                *server = ShardedBmsServer::restore(Arc::new(model.clone()), checkpoint.clone())
                    .expect("untampered checkpoint");
                for report in &journal[checkpoint_len..] {
                    if dedup {
                        server.ingest(report.clone());
                    } else {
                        server.post_observation(report.clone());
                    }
                }
                (journal.len() - checkpoint_len) as u64
            };
            for delivery in &deliveries {
                loop {
                    let crash_due = crash_windows
                        .get(crash_idx)
                        .is_some_and(|w| w.from <= delivery.at);
                    let checkpoint_due = next_checkpoint <= delivery.at;
                    if crash_due
                        && (!checkpoint_due || crash_windows[crash_idx].from <= next_checkpoint)
                    {
                        replayed += restart(&mut server, &checkpoint, &journal, checkpoint_len);
                        crashes += 1;
                        crash_idx += 1;
                    } else if checkpoint_due {
                        checkpoint = server.checkpoint();
                        checkpoint_len = journal.len();
                        next_checkpoint += checkpoint_every;
                    } else {
                        break;
                    }
                }
                let stored = if dedup {
                    !server.ingest(delivery.report.clone()).is_duplicate()
                } else {
                    server.post_observation(delivery.report.clone());
                    true
                };
                if stored {
                    journal.push(delivery.report.clone());
                }
            }
            while crash_windows
                .get(crash_idx)
                .is_some_and(|w| w.from <= end_of_run)
            {
                replayed += restart(&mut server, &checkpoint, &journal, checkpoint_len);
                crashes += 1;
                crash_idx += 1;
            }

            // Invariants and the oracle comparison.
            let mut distinct: BTreeSet<(DeviceId, u64)> = BTreeSet::new();
            let mut last_writer: BTreeMap<DeviceId, (SimTime, u64, usize)> = BTreeMap::new();
            let mut duplicates_on_wire = 0u64;
            for delivery in &deliveries {
                if !distinct.insert((delivery.report.device, delivery.report.seq)) {
                    duplicates_on_wire += 1;
                    continue;
                }
                if let Some(room) = model.classify(&delivery.report) {
                    let entry = last_writer
                        .entry(delivery.report.device)
                        .or_insert((delivery.report.at, delivery.report.seq, room));
                    if (delivery.report.at, delivery.report.seq) >= (entry.0, entry.1) {
                        *entry = (delivery.report.at, delivery.report.seq, room);
                    }
                }
            }
            let exactly_once_ok = !dedup || server.report_count() == distinct.len();
            let monotone_ok = devices
                .iter()
                .all(|&d| server.room_of(d) == last_writer.get(&d).map(|&(_, _, room)| room));
            let bounded_ok = pending <= CHAOS_QUEUE_CAPACITY
                && server.dedup_entries() <= devices.len() * server.dedup_capacity();
            ChaosCell {
                pattern: pattern_name.to_string(),
                failover,
                dedup,
                offered,
                delivered,
                dropped,
                retransmits,
                duplicates_on_wire,
                duplicates_rejected: server.stats().reports_duplicate,
                failover_sends: fo_sends,
                probes,
                crashes,
                replayed,
                energy_mj,
                view_matches_oracle: server.occupancy() == oracle_occupancy,
                exactly_once_ok,
                monotone_ok,
                bounded_ok,
            }
        });
        ChaosResult { cells }
    }
}

impl ExperimentReport for ChaosResult {
    fn summary_rows(&self) -> Vec<String> {
        let onoff = |b: bool| if b { "on" } else { "off" };
        let mut rows = vec![
            "  pattern   failover dedup  offered delivered dropped  retx  dup-wire dup-rej fo-sends probes crashes replayed  energy     oracle    invariants"
                .to_string(),
        ];
        for c in &self.cells {
            rows.push(format!(
                "  {:<9} {:>8} {:>5}  {:>7} {:>9} {:>7} {:>5} {:>9} {:>7} {:>8} {:>6} {:>7} {:>8}  {:>7.0} mJ  {:<8}  {}",
                c.pattern,
                onoff(c.failover),
                onoff(c.dedup),
                c.offered,
                c.delivered,
                c.dropped,
                c.retransmits,
                c.duplicates_on_wire,
                c.duplicates_rejected,
                c.failover_sends,
                c.probes,
                c.crashes,
                c.replayed,
                c.energy_mj,
                if c.view_matches_oracle { "match" } else { "DIVERGED" },
                if c.invariants_hold() { "ok" } else { "VIOLATED" },
            ));
        }
        rows.push(String::new());
        rows.push(
            "  invariants hold at every cell; failover+dedup cells match the clean oracle"
                .to_string(),
        );
        rows
    }

    fn assert_invariants(&self) {
        assert!(self.all_invariants_hold(), "chaos sweep invariant violated");
        assert!(
            self.reliable_cells_match_oracle(),
            "a failover+dedup cell diverged from the clean oracle"
        );
    }
}
