//! The `faults` arm: graceful degradation over a fault-intensity sweep.

use super::house::{
    agrees_with_truth, commissioned_house, itinerary_walks, pump_queue, report_stream,
    uplink_energy,
};
use super::{ExperimentCtx, ExperimentReport};
use crate::{BatchConfig, PipelineConfig};
use roomsense_net::{BtRelayTransport, Delivery, DeviceId, Transport};
use roomsense_sim::{exec, rng, SimDuration, SimTime};
use roomsense_telemetry::Recorder;
use std::sync::Arc;

/// How one uplink arm fared at one fault intensity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultArmOutcome {
    /// Fraction of offered reports that reached the server by the end of
    /// the run (`None` when nothing was offered).
    pub delivery_rate: Option<f64>,
    /// Online BMS-vs-truth agreement: at each truth sample, the fraction of
    /// devices whose *currently stored* room matches reality.
    pub device_agreement: f64,
    /// Mean age of the server's per-device knowledge across the run.
    pub mean_staleness: SimDuration,
    /// Radio energy spent on the uplink (all attempts, including refused
    /// probes and retries), mJ.
    pub energy_mj: f64,
    /// Conditioning time the demand-response controller ran on expired
    /// occupancy evidence.
    pub stale_conditioning: SimDuration,
}

/// One intensity point of the fault sweep: the same faulted run scored with
/// a bare transport vs the store-and-forward queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSweepPoint {
    /// The fault intensity in `[0, 1]` this point was generated with.
    pub intensity: f64,
    /// Scheduled downtime of the end-to-end report path.
    pub uplink_downtime: SimDuration,
    /// Fire-and-forget: each report gets one try at its cycle time.
    pub bare: FaultArmOutcome,
    /// Store-and-forward: failed reports queue and retry with backoff.
    pub resilient: FaultArmOutcome,
}

/// The full fault sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultsResult {
    /// One point per intensity, in ascending intensity order.
    pub points: Vec<FaultSweepPoint>,
}

impl ExperimentCtx {
    /// Sweeps fault intensity over the paper house and scores graceful
    /// degradation: a two-occupant run with seeded beacon/scanner/uplink faults,
    /// reported once over a bare BT-relay uplink and once through
    /// [`QueueingTransport`](roomsense_net::QueueingTransport). The BMS serves
    /// last-known-good occupancy with explicit staleness, and the
    /// demand-response controller consumes it fail-safe.
    ///
    /// Deterministic for a fixed `seed`: the fault schedules, walks, radio, and
    /// transports all draw from named streams.
    pub fn faults(&self) -> FaultsResult {
        use roomsense_building::mobility::MobilityModel;
        use roomsense_building::{trace, RoomId};
        use roomsense_energy::UplinkArchitecture;
        use roomsense_net::{
            DemandResponseController, FaultyTransport, QueueingTransport, ShardedBmsServer,
        };
        let seed = self.seed;

        // Commissioning happens before anything breaks: train on a clean walk.
        let (scenario, model) = commissioned_house(seed);
        let config = PipelineConfig::paper_android();
        let outside = scenario.outside_label();
        let room_count = scenario.plan().rooms().len();

        let duration = SimDuration::from_secs(600);
        let drain = SimDuration::from_secs(180);
        let itineraries: [&[(RoomId, SimDuration)]; 2] = [
            &[
                (RoomId::new(0), SimDuration::from_secs(300)),
                (RoomId::new(1), SimDuration::from_secs(300)),
            ],
            &[
                (RoomId::new(4), SimDuration::from_secs(400)),
                (RoomId::new(2), SimDuration::from_secs(200)),
            ],
        ];
        let walks = itinerary_walks(&scenario, seed, "faults-walk", &itineraries);
        let occupants: Vec<&dyn MobilityModel> = walks.iter().map(|w| w as _).collect();
        let truth = trace::ground_truth(
            scenario.plan(),
            &occupants,
            duration,
            SimDuration::from_secs(5),
        );

        // Each intensity point is an independent faulted run keyed on indexed
        // RNG streams; the four points fan out over worker threads (and each
        // run's per-device pipelines fan out again inside run_fleet).
        let intensities = [0.0, 0.25, 0.5, 0.75];
        let points = exec::par_map_indexed(&intensities, |index, &intensity| {
            let plan = crate::FaultPlan::generate(
                scenario.advertisers().len(),
                duration,
                intensity,
                seed,
            );
            let events = crate::run_fleet(
                &scenario,
                &config,
                &occupants,
                duration,
                seed,
                &plan,
                &BatchConfig::default(),
                &mut Recorder::default(),
            );
            let reports = report_stream(&events, false);
            let chain = || {
                FaultyTransport::new(
                    FaultyTransport::new(BtRelayTransport::default(), plan.uplink_outages.clone()),
                    plan.server_outages.clone(),
                )
            };

            // Bare arm: one try per report, at its cycle time.
            let mut bare_transport = chain();
            let mut bare_rng = rng::for_indexed(seed, "faults-bare", index as u64);
            let mut bare_deliveries = Vec::new();
            for (at, report) in &reports {
                if let roomsense_net::SendOutcome::Delivered { at: arrived } =
                    bare_transport.send(*at, report, &mut bare_rng)
                {
                    bare_deliveries.push(Delivery {
                        report: report.clone(),
                        at: arrived,
                    });
                }
            }
            let bare_rate = (!reports.is_empty())
                .then(|| bare_deliveries.len() as f64 / reports.len() as f64);

            // Resilient arm: queue, retry with backoff, keep flushing after the
            // last cycle until the backlog drains or the run is called off.
            let mut queue = QueueingTransport::new(chain(), 256, SimDuration::from_secs(2));
            let mut resilient_rng = rng::for_indexed(seed, "faults-resilient", index as u64);
            let mut resilient_deliveries =
                pump_queue(&mut queue, &reports, duration, drain, &mut resilient_rng);
            let resilient_rate = queue.report_delivery_rate();
            // Arrival times can locally invert (variable link latency); the
            // scorer consumes deliveries in arrival order.
            bare_deliveries.sort_by_key(|d| d.at);
            resilient_deliveries.sort_by_key(|d| d.at);

            let score = |deliveries: &[Delivery],
                         events: Vec<roomsense_net::TransportEvent>,
                         delivery_rate: Option<f64>| {
                let server = ShardedBmsServer::new(Arc::new(model.clone()), 1);
                let mut dr =
                    DemandResponseController::new(room_count, SimDuration::from_secs(30));
                let ttl = SimDuration::from_secs(15);
                let mut last_seen: Vec<Option<SimTime>> = vec![None; occupants.len()];
                let mut next = 0usize;
                let mut hits = 0usize;
                let mut total = 0usize;
                let mut staleness_sum = SimDuration::ZERO;
                let mut staleness_samples = 0u64;
                for sample in truth.samples() {
                    while next < deliveries.len() && deliveries[next].at <= sample.at {
                        let report = &deliveries[next].report;
                        let device = report.device.value() as usize;
                        if last_seen[device].is_none_or(|t| report.at > t) {
                            last_seen[device] = Some(report.at);
                        }
                        server.post_observation(report.clone());
                        next += 1;
                    }
                    dr.update_view(sample.at, &server.occupancy_view(sample.at, ttl));
                    for (device, true_room) in sample.rooms.iter().enumerate() {
                        let believed = server.room_of(DeviceId::new(device as u32));
                        total += 1;
                        if agrees_with_truth(believed, *true_room, outside) {
                            hits += 1;
                        }
                        staleness_sum += sample
                            .at
                            .saturating_since(last_seen[device].unwrap_or(SimTime::ZERO));
                        staleness_samples += 1;
                    }
                }
                let energy_mj =
                    uplink_energy(events, duration, drain, UplinkArchitecture::BluetoothRelay)
                        .total_mj();
                FaultArmOutcome {
                    delivery_rate,
                    device_agreement: hits as f64 / total.max(1) as f64,
                    mean_staleness: SimDuration::from_millis(
                        staleness_sum.as_millis() / staleness_samples.max(1),
                    ),
                    energy_mj,
                    stale_conditioning: dr.report(SimTime::ZERO + duration).stale,
                }
            };

            let bare = score(
                &bare_deliveries,
                bare_transport.telemetry().transport_events(),
                bare_rate,
            );
            let resilient = score(
                &resilient_deliveries,
                queue.telemetry().transport_events(),
                resilient_rate,
            );
            FaultSweepPoint {
                intensity,
                uplink_downtime: plan.uplink_downtime(),
                bare,
                resilient,
            }
        });
        FaultsResult { points }
    }
}

impl ExperimentReport for FaultsResult {
    fn summary_rows(&self) -> Vec<String> {
        let mut rows = vec![
            "  per fault intensity: report delivery, online BMS-vs-truth agreement,".to_string(),
            "  mean knowledge staleness, uplink energy, and stale-evidence conditioning".to_string(),
            String::new(),
            "  intensity  path down  arm        delivery  agreement  staleness  energy    stale-hvac"
                .to_string(),
        ];
        for point in &self.points {
            for (name, arm) in [("bare", &point.bare), ("queueing", &point.resilient)] {
                rows.push(format!(
                    "  {:>9.2}  {:>8}  {:<9} {:>8}  {:>8.1}%  {:>8.1}s  {:>7.0} mJ  {:>8.1}s",
                    point.intensity,
                    format!("{}", point.uplink_downtime),
                    name,
                    arm.delivery_rate
                        .map_or("    -".to_string(), |r| format!("{:.1}%", r * 100.0)),
                    arm.device_agreement * 100.0,
                    arm.mean_staleness.as_secs_f64(),
                    arm.energy_mj,
                    arm.stale_conditioning.as_secs_f64(),
                ));
            }
        }
        rows
    }
}
