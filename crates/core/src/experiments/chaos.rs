//! The `chaos` arm: end-to-end reliable delivery under duplicates,
//! reorder, crash/restore and failover.

use super::house::{
    commissioned_house, ingest_with_crashes, itinerary_walks, lossy_ack_uplink, report_stream,
    uplink_energy, LOSSY_QUEUE_CAPACITY,
};
use super::{ExperimentCtx, ExperimentReport};
use crate::{BatchConfig, PipelineConfig};
use roomsense_energy::UplinkArchitecture;
use roomsense_net::{BtRelayTransport, DeviceId, OccupancyEstimator, WifiTransport};
use roomsense_sim::{exec, rng, SimDuration, SimTime};
use roomsense_telemetry::keys;
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
        use roomsense_building::mobility::MobilityModel;
        use roomsense_building::RoomId;
        use roomsense_net::{
            FailoverTransport, FaultyTransport, LinkHealthConfig, ShardedBmsServer,
        };
        use roomsense_sim::{FaultSchedule, FaultWindow};
        use std::collections::{BTreeMap, BTreeSet};
        let seed = self.seed;

        let (scenario, model) = commissioned_house(seed);
        let config = PipelineConfig::paper_android();
        let estimator: Arc<dyn OccupancyEstimator> = Arc::new(model);

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
        let walks = itinerary_walks(&scenario, seed, "chaos-walk", &itineraries);
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
        let reports = report_stream(&events, true);
        let devices: BTreeSet<DeviceId> = reports.iter().map(|(_, r)| r.device).collect();

        // The clean oracle: every offered report, exactly once, in order.
        let oracle = ShardedBmsServer::new(Arc::clone(&estimator), 1);
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

        let end_of_run = SimTime::ZERO + duration + drain;
        let cells = exec::par_map_indexed(&specs, |index, &(p, failover, dedup)| {
            let (pattern_name, wifi_outages, crash_schedule) = &patterns[p];
            let mut cell_rng = rng::for_indexed(seed, "chaos-cell", index as u64);
            let wifi = FaultyTransport::new(
                WifiTransport::new(0.99, SimDuration::from_millis(50)),
                wifi_outages.clone(),
            );

            // The crash schedule wraps the whole chain — a dead server refuses
            // both radios.
            let (uplink, architecture) = if failover {
                let chain = FailoverTransport::new(
                    wifi,
                    BtRelayTransport::default(),
                    LinkHealthConfig::default(),
                );
                let chain = FaultyTransport::new(chain, crash_schedule.clone());
                let uplink = lossy_ack_uplink(chain, &reports, duration, drain, &mut cell_rng);
                (uplink, UplinkArchitecture::Failover)
            } else {
                let chain = FaultyTransport::new(wifi, crash_schedule.clone());
                let uplink = lossy_ack_uplink(chain, &reports, duration, drain, &mut cell_rng);
                (uplink, UplinkArchitecture::Wifi)
            };
            let deliveries = &uplink.deliveries;
            let run =
                ingest_with_crashes(&estimator, deliveries, crash_schedule, end_of_run, dedup);
            let server = &run.server;

            // Invariants and the oracle comparison.
            let mut distinct: BTreeSet<(DeviceId, u64)> = BTreeSet::new();
            let mut last_writer: BTreeMap<DeviceId, (SimTime, u64, usize)> = BTreeMap::new();
            let mut duplicates_on_wire = 0u64;
            for delivery in deliveries.iter() {
                if !distinct.insert((delivery.report.device, delivery.report.seq)) {
                    duplicates_on_wire += 1;
                    continue;
                }
                if let Some(room) = estimator.classify(&delivery.report) {
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
            let bounded_ok = uplink.pending <= LOSSY_QUEUE_CAPACITY
                && server.dedup_entries() <= devices.len() * server.dedup_capacity();
            ChaosCell {
                pattern: pattern_name.to_string(),
                failover,
                dedup,
                offered: uplink.offered,
                delivered: uplink.delivered,
                dropped: uplink.dropped,
                retransmits: uplink.retransmits,
                duplicates_on_wire,
                duplicates_rejected: server.stats().reports_duplicate,
                failover_sends: uplink.telemetry.counter(keys::NET_FAILOVER_SENDS),
                probes: uplink.telemetry.counter(keys::NET_FAILOVER_PROBES),
                crashes: run.crashes,
                replayed: run.replayed,
                energy_mj: uplink_energy(
                    uplink.telemetry.transport_events(),
                    duration,
                    drain,
                    architecture,
                )
                .total_mj(),
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
